//! Pipeline orchestration — Figure 1 and §3.4 ("Data Curation as a
//! Service": "whether we can orchestrate a DC pipeline, where each
//! component possibly uses some DL model, such that the input data is
//! integrated and cleaned automatically for a user specified task").
//!
//! [`Pipeline::run`] executes the three stages of the figure against a
//! lake of tables:
//!
//! 1. **discover** — embed the lake, rank tables against the analyst's
//!    natural-language query, keep the top-k compatible tables;
//! 2. **integrate** — union compatible tables, block with embedding
//!    LSH, stream each candidate pair through a similarity rule into a
//!    union–find, and consolidate each duplicate cluster into a golden
//!    record;
//! 3. **clean** — discover FDs, repair violations by majority, impute
//!    remaining nulls.
//!
//! The report records what every stage did plus before/after
//! [`crate::quality::QualityReport`]s.
//!
//! The discovery and imputation steps run through
//! [`dc_serve::engine`] — the exact code paths behind the online
//! service's `/search` and `/impute` endpoints — so batch pipeline
//! results and served results cannot drift apart.

use crate::quality::{quality_score, QualityReport};
use dc_clean::{SimpleImputer, SimpleStrategy, TableEncoder};
use dc_discovery::NeuralSearch;
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::baselines::RuleMatcher;
use dc_er::features::tuple_vectors;
use dc_er::LshBlocker;
use dc_relational::{discover_fds, Table};
use dc_serve::engine;
use dc_synth::consolidate::{consolidate_cluster, PreferenceModel};
use rand::rngs::StdRng;

/// Match edges handed to the union–find; over `er.match.pairs`, the
/// matcher's yield.
static MATCH_MATCHED: dc_obs::Counter = dc_obs::Counter::new("er.match.matched");

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// The analyst's discovery query ("Google-style search", §5.1).
    pub query: String,
    /// How many top-ranked tables to integrate.
    pub top_k_tables: usize,
    /// SGNS settings for the lake embeddings.
    pub sgns: SgnsConfig,
    /// Mean-attribute-similarity threshold for the duplicate matcher.
    pub dedup_threshold: f64,
    /// LSH shape: (bands, rows per band).
    pub lsh: (usize, usize),
    /// Impute remaining nulls after repair.
    pub impute: bool,
    /// When > 0, impute through the service engine's kNN path
    /// ([`dc_serve::engine::impute_knn`], the `/impute` endpoint) with
    /// this `k` instead of the key-masked global-mode fill.
    pub knn_impute_k: usize,
    /// Maximum FD LHS size during discovery.
    pub max_fd_lhs: usize,
    /// Maximum majority-repair rounds (interacting FDs need several).
    pub repair_rounds: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            query: String::new(),
            top_k_tables: 2,
            sgns: SgnsConfig {
                dim: 24,
                window: 8,
                epochs: 5,
                ..Default::default()
            },
            dedup_threshold: 0.82,
            lsh: (8, 4),
            impute: true,
            knn_impute_k: 0,
            max_fd_lhs: 1,
            repair_rounds: 12,
        }
    }
}

impl PipelineConfig {
    /// Set the discovery query (chainable builder).
    pub fn with_query(mut self, query: impl Into<String>) -> Self {
        self.query = query.into();
        self
    }

    /// Set how many top-ranked tables to integrate (chainable builder).
    pub fn with_top_k_tables(mut self, k: usize) -> Self {
        self.top_k_tables = k.max(1);
        self
    }

    /// Set the SGNS settings for the lake embeddings (chainable
    /// builder).
    pub fn with_sgns(mut self, sgns: SgnsConfig) -> Self {
        self.sgns = sgns;
        self
    }

    /// Set the duplicate-matcher similarity threshold (chainable
    /// builder).
    pub fn with_dedup_threshold(mut self, threshold: f64) -> Self {
        self.dedup_threshold = threshold;
        self
    }

    /// Set the LSH shape as (bands, rows per band) (chainable builder).
    pub fn with_lsh(mut self, bands: usize, rows_per_band: usize) -> Self {
        self.lsh = (bands, rows_per_band);
        self
    }

    /// Enable or disable null imputation (chainable builder).
    pub fn with_impute(mut self, impute: bool) -> Self {
        self.impute = impute;
        self
    }

    /// Route imputation through the service engine's kNN path with this
    /// `k`; 0 restores the key-masked mode fill (chainable builder).
    pub fn with_knn_impute_k(mut self, k: usize) -> Self {
        self.knn_impute_k = k;
        self
    }

    /// Set the maximum FD LHS size during discovery (chainable
    /// builder).
    pub fn with_max_fd_lhs(mut self, lhs: usize) -> Self {
        self.max_fd_lhs = lhs;
        self
    }

    /// Set the maximum majority-repair rounds (chainable builder).
    pub fn with_repair_rounds(mut self, rounds: usize) -> Self {
        self.repair_rounds = rounds;
        self
    }
}

/// What the pipeline did.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Names of the tables discovery selected, in rank order.
    pub discovered: Vec<String>,
    /// Rows entering integration.
    pub rows_in: usize,
    /// Candidate pairs surviving blocking.
    pub candidates: usize,
    /// Duplicate clusters consolidated (clusters of size ≥ 2).
    pub clusters_merged: usize,
    /// FD repairs applied.
    pub repairs: usize,
    /// Cells imputed.
    pub cells_imputed: usize,
    /// Quality before cleaning (after integration).
    pub before: QualityReport,
    /// Quality after the full pipeline.
    pub after: QualityReport,
}

/// The Figure-1 orchestrator.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// Configuration.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// With the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Run discover → integrate → clean over a lake.
    ///
    /// # Panics
    /// Panics when `tables` is empty.
    pub fn run(&self, tables: &[Table], rng: &mut StdRng) -> (Table, PipelineReport) {
        assert!(!tables.is_empty(), "pipeline needs at least one table");

        // ---- discover -------------------------------------------------
        let stage = dc_obs::span("pipeline.discover");
        let refs: Vec<&Table> = tables.iter().collect();
        let docs = dc_discovery::search_documents(&refs, 15);
        let emb = Embeddings::train(&docs, &self.config.sgns, rng);
        let search = NeuralSearch::index(emb.clone(), &refs, 15);
        // The service engine's `/search` path (exact top-k; the trailing
        // shortlist argument is ignored) with k = table count: same
        // tables, scores, and order as a full ranking.
        let ranked = engine::search_neural(&search, &self.config.query, refs.len(), 0)
            .expect("lake is non-empty, k >= 1");
        // Keep the top table plus lower-ranked tables with an identical
        // schema (only those can be unioned).
        let base = &tables[ranked[0].0];
        let mut discovered = vec![base.name.clone()];
        let mut merged = base.clone();
        merged.name = format!("{}_curated", base.name);
        for &(ti, _) in ranked
            .iter()
            .skip(1)
            .take(self.config.top_k_tables.saturating_sub(1))
        {
            let t = &tables[ti];
            if t.schema.names() == base.schema.names() {
                discovered.push(t.name.clone());
                for row in &t.rows {
                    merged.push(row.clone());
                }
            }
        }
        let rows_in = merged.len();
        drop(stage);

        // ---- integrate (dedup + golden records) ------------------------
        let stage = dc_obs::span("pipeline.integrate");
        // Word-level tuple embeddings for blocking.
        let tuple_docs: Vec<Vec<String>> = merged
            .rows
            .iter()
            .map(|r| dc_relational::tokenize_tuple(r))
            .collect();
        let tuple_emb = Embeddings::train(&tuple_docs, &self.config.sgns, rng);
        let vectors = tuple_vectors(&tuple_emb, &merged);
        let index = {
            let _span = dc_obs::span("er.block");
            let blocker =
                LshBlocker::new(tuple_emb.dim(), self.config.lsh.0, self.config.lsh.1, rng);
            blocker.index(&vectors)
        };
        // Blocking streams into matching: each candidate pair goes
        // straight through filter–verify into the union–find, so the
        // pair set is never held. The clusters do not depend on the order
        // the edges arrive in.
        let (clusters, candidates) = {
            let _span = dc_obs::span("er.match");
            let mut matcher = RuleMatcher::new(self.config.dedup_threshold).prepare(&merged);
            let mut uf = UnionFind::new(merged.len());
            let (mut candidates, mut matched) = (0usize, 0u64);
            index.for_each_pair(|a, b| {
                candidates += 1;
                if matcher.is_match(a, b) {
                    uf.union(a, b);
                    matched += 1;
                }
            });
            drop(index);
            MATCH_MATCHED.add(matched);
            (uf.clusters(), candidates)
        };
        let preference = PreferenceModel::default();
        let mut integrated = Table::new(merged.name.clone(), merged.schema.clone());
        let mut clusters_merged = 0usize;
        for cluster in &clusters {
            if cluster.len() > 1 {
                clusters_merged += 1;
            }
            let rows: Vec<&[dc_relational::Value]> =
                cluster.iter().map(|&i| merged.rows[i].as_slice()).collect();
            integrated.push(consolidate_cluster(&rows, &preference));
        }
        let fds = select_repair_fds(discover_fds(&integrated, self.config.max_fd_lhs));
        let before = quality_score(&integrated, &fds);
        drop(stage);

        // ---- clean ------------------------------------------------------
        let stage = dc_obs::span("pipeline.clean");
        // Impute BEFORE repairing: a global-mode fill ignores FD groups,
        // so running the majority repair afterwards restores group
        // consistency over the imputed values too.
        let mut cleaned = integrated;
        let mut cells_imputed = 0usize;
        if self.config.impute && self.config.knn_impute_k > 0 {
            // The service engine's `/impute` path: encode the table and
            // fill nulls from the k nearest complete rows.
            let encoder = TableEncoder::fit(&cleaned, 64);
            let filled = engine::impute_knn(&cleaned, &encoder, self.config.knn_impute_k)
                .expect("encoder was fitted to this table");
            for (row, frow) in cleaned.rows.iter_mut().zip(&filled.rows) {
                for c in 0..row.len() {
                    if row[c].is_null() && !frow[c].is_null() {
                        row[c] = frow[c].clone();
                        cells_imputed += 1;
                    }
                }
            }
        } else if self.config.impute {
            // Key-like columns (near-unique values: ids, emails, phones)
            // must not receive a global-mode fill — duplicated "modes"
            // in a key column poison every FD keyed on it and send the
            // majority repair into oscillation. This is §3.1's "rare
            // values, such as primary keys, should be treated fairly".
            let key_like: Vec<bool> = (0..cleaned.schema.arity())
                .map(|c| {
                    let non_null = cleaned.rows.iter().filter(|r| !r[c].is_null()).count();
                    non_null > 0 && cleaned.distinct(c).len() as f64 / non_null as f64 > 0.8
                })
                .collect();
            let imputer = SimpleImputer::fit(&cleaned, SimpleStrategy::MeanMode);
            let filled = imputer.impute(&cleaned);
            for (row, frow) in cleaned.rows.iter_mut().zip(&filled.rows) {
                for c in 0..row.len() {
                    if row[c].is_null() && !key_like[c] {
                        row[c] = frow[c].clone();
                        cells_imputed += 1;
                    }
                }
            }
        }
        let repairs =
            dc_clean::repair::repair_fds(&mut cleaned, &fds, self.config.repair_rounds).len();
        // Cleaning can turn near-duplicates into exact duplicates
        // (imputed nulls, repaired RHS values); collapse them, keeping
        // each row's first occurrence. The stable sort keeps equal keys
        // in row order, so every row after the first of its run goes.
        let keys: Vec<Vec<String>> = cleaned
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.canonical()).collect())
            .collect();
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let mut keep = vec![true; keys.len()];
        for w in order.windows(2) {
            if keys[w[0]] == keys[w[1]] {
                keep[w[1]] = false;
            }
        }
        let mut keep = keep.into_iter();
        cleaned.rows.retain(|_| keep.next().unwrap_or(true));
        let after = quality_score(&cleaned, &fds);
        drop(stage);

        (
            cleaned,
            PipelineReport {
                discovered,
                rows_in,
                candidates,
                clusters_merged,
                repairs,
                cells_imputed,
                before,
                after,
            },
        )
    }
}

/// Keep a repair-safe subset of discovered FDs: at most one FD per
/// RHS column (two FDs writing the same column with contradicting
/// majorities make the fixpoint oscillate) and no 2-cycles
/// (`A → B` and `B → A` repairing each other forever).
fn select_repair_fds(
    fds: Vec<dc_relational::FunctionalDependency>,
) -> Vec<dc_relational::FunctionalDependency> {
    let mut kept: Vec<dc_relational::FunctionalDependency> = Vec::new();
    for fd in fds {
        if kept.iter().any(|k| k.rhs == fd.rhs) {
            continue;
        }
        let cycles = kept
            .iter()
            .any(|k| fd.lhs.contains(&k.rhs) && k.lhs.contains(&fd.rhs));
        if cycles {
            continue;
        }
        kept.push(fd);
    }
    kept
}

/// Minimal union–find for duplicate clustering.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Root of `x`'s set. Iterative with path halving: `union` does not
    /// balance, so a chain of matches can be as deep as the table is
    /// long, which recursion would pay for in stack.
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Clusters in ascending order of their smallest member.
    fn clusters(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut map: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for i in 0..n {
            let r = self.find(i);
            map.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = map.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_datagen::{people_fds, people_table, ErrorInjector};
    use rand::SeedableRng;

    #[test]
    fn union_find_clusters() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        let c = uf.clusters();
        assert_eq!(c, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn union_find_survives_a_million_element_chain() {
        // Every union hangs the previous root under a new one: the
        // deepest tree `union` can build.
        let n = 1_000_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.find(0), n - 1);
        let clusters = uf.clusters();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), n);
        assert!(clusters[0].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pipeline_improves_quality_on_dirty_lake() {
        let mut rng = StdRng::seed_from_u64(1000);
        // Two overlapping dirty shards of a people table + a decoy.
        let clean = people_table(80, &mut rng);
        let inj = ErrorInjector {
            typo_rate: 0.01,
            null_rate: 0.05,
            swap_rate: 0.0,
            fd_violation_rate: 0.02,
            abbreviation_rate: 0.0,
        };
        let (mut shard_a, _) = inj.inject(&clean, &people_fds(), &mut rng);
        shard_a.name = "people_a".into();
        let (mut shard_b, _) = inj.inject(&clean, &people_fds(), &mut rng);
        shard_b.name = "people_b".into();
        let decoy = dc_datagen::products_table(40, &mut rng);
        let tables = vec![shard_a, decoy, shard_b];

        let pipeline = Pipeline::new(PipelineConfig {
            query: "people name city country".into(),
            top_k_tables: 3,
            ..Default::default()
        });
        let (curated, report) = pipeline.run(&tables, &mut rng);

        // Both people shards discovered, not the products decoy.
        assert!(report.discovered.iter().any(|n| n == "people_a"));
        assert!(report.discovered.iter().any(|n| n == "people_b"));
        assert!(!report.discovered.iter().any(|n| n == "products"));
        // The two shards duplicate every entity: integration must merge.
        assert!(
            report.clusters_merged > 20,
            "merged {}",
            report.clusters_merged
        );
        assert!(curated.len() < report.rows_in);
        // Cleaning improves the quality score.
        assert!(
            report.after.score() >= report.before.score(),
            "quality {:?} → {:?}",
            report.before,
            report.after
        );
        // Key-like columns are deliberately not mode-imputed, so a few
        // nulls may survive; completeness must still improve.
        assert!(
            report.after.completeness >= report.before.completeness,
            "completeness {:?} → {:?}",
            report.before,
            report.after
        );
    }

    #[test]
    fn knn_impute_routes_through_the_service_engine() {
        let mut rng = StdRng::seed_from_u64(2000);
        let clean = people_table(60, &mut rng);
        let inj = dc_datagen::ErrorInjector::only(dc_datagen::ErrorKind::Null, 0.06);
        let (mut shard, _) = inj.inject(&clean, &[], &mut rng);
        shard.name = "people".into();
        let pipeline = Pipeline::new(
            PipelineConfig::default()
                .with_query("people name city country")
                .with_top_k_tables(1)
                .with_knn_impute_k(3),
        );
        let (curated, report) = pipeline.run(&[shard], &mut rng);
        assert!(report.cells_imputed > 0, "kNN path must fill nulls");
        assert!(
            report.after.completeness >= report.before.completeness,
            "completeness {:?} → {:?}",
            report.before,
            report.after
        );
        assert!(!curated.rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn empty_lake_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        Pipeline::default().run(&[], &mut rng);
    }
}
