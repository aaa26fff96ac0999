//! `curate_lake` and `curate_wide`: `Pipeline::run` end to end, used two
//! opposite ways.
//!
//! * **lake** — two dirty shards of one people table plus a products
//!   decoy. Integration dominates (SGNS over tuples, LSH blocking,
//!   `RuleMatcher` over the candidates); discovery has three tables to
//!   rank and does almost nothing.
//! * **wide** — the same call over a generated lake of hundreds of
//!   small tables plus two small shards. Discovery dominates (column
//!   documents, SGNS over them, `NeuralSearch::index`, the engine
//!   search); integration sees only the two shards. It also takes the
//!   engine kNN-impute path (`knn_impute_k 3`).
//!
//! `Pipeline::run` is one opaque call, so the traced pass adds a **stage
//! replay**: the same public functions in the same order with the same
//! seed, each wrapped in a benchmark span. The replay must reproduce the
//! report's counts exactly, which is what licenses reading its spans as
//! the pipeline's breakdown.

use crate::harness::{
    end_to_end, pct_over, ratio, run_for, timed_setup, Checks, Fnv, Obs, Outcome, RunOpts,
};
use crate::stats;
use crate::trace::{self, Tracer};
use autodc::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use autodc::quality::quality_score;
use dc_clean::{SimpleImputer, SimpleStrategy, TableEncoder};
use dc_datagen::{people_fds, people_table, products_table, ErrorInjector, Lake};
use dc_discovery::NeuralSearch;
use dc_embed::Embeddings;
use dc_er::baselines::RuleMatcher;
use dc_er::features::tuple_vectors;
use dc_er::LshBlocker;
use dc_relational::{discover_fds, FunctionalDependency, Table};
use dc_serve::engine;
use dc_synth::consolidate::{consolidate_cluster, PreferenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Which of the two lakes to build.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    Lake,
    Wide,
}

/// Everything `Pipeline::run` receives, plus the ground truth the
/// checks need.
struct Input {
    tables: Vec<Table>,
    pipeline: Pipeline,
    /// Entities planted in both shards (row `i` of one shard duplicates
    /// row `i` of the other).
    planted: usize,
    /// Rows over all tables of the lake.
    lake_rows: usize,
    run_seed: u64,
}

fn make_input(shape: Shape, seed: u64, smoke: bool) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let (shard_rows, decoys): (usize, Vec<Table>) = match (shape, smoke) {
        (Shape::Lake, false) => (500, vec![products_table(250, &mut rng)]),
        (Shape::Lake, true) => (80, vec![products_table(40, &mut rng)]),
        (Shape::Wide, false) => (100, Lake::generate(240, 50, &mut rng).tables),
        (Shape::Wide, true) => (60, Lake::generate(24, 30, &mut rng).tables),
    };
    let clean = people_table(shard_rows, &mut rng);
    let inj = ErrorInjector {
        typo_rate: 0.01,
        null_rate: 0.05,
        swap_rate: 0.0,
        fd_violation_rate: 0.02,
        abbreviation_rate: 0.01,
    };
    let shard = |name: &str, rng: &mut StdRng| {
        let (mut t, _) = inj.inject(&clean, &people_fds(), rng);
        t.name = name.into();
        t
    };
    let (a, b) = (shard("people_a", &mut rng), shard("people_b", &mut rng));
    // Shards first and last, decoys between, as the pipeline's own test.
    let mut tables = vec![a];
    tables.extend(decoys);
    tables.push(b);
    let config = PipelineConfig::default()
        .with_query("people name city country")
        .with_top_k_tables(3)
        .with_knn_impute_k(if shape == Shape::Wide { 3 } else { 0 });
    Input {
        lake_rows: tables.iter().map(Table::len).sum(),
        tables,
        pipeline: Pipeline::new(config),
        planted: shard_rows,
        run_seed: seed ^ 0x9e37_79b9_7f4a_7c15,
    }
}

fn table_hash(t: &Table) -> u64 {
    let mut h = Fnv::default();
    for row in &t.rows {
        for v in row {
            h.bytes(v.canonical().as_bytes());
            h.bytes(&[0x1f]);
        }
        h.bytes(&[0x1e]);
    }
    h.0
}

/// One `Pipeline::run`; every repetition starts from the same rng state
/// so its output must repeat bit for bit.
fn run_once(input: &Input) -> (u64, PipelineReport) {
    let mut rng = StdRng::seed_from_u64(input.run_seed);
    let (curated, report) = input.pipeline.run(&input.tables, &mut rng);
    (table_hash(&curated), report)
}

fn check_report(
    checks: &mut Checks,
    input: &Input,
    report: &PipelineReport,
    rows_out_hash: u64,
    first_hash: u64,
) {
    let found: HashSet<&str> = report.discovered.iter().map(String::as_str).collect();
    checks.check(found == HashSet::from(["people_a", "people_b"]), || {
        format!(
            "discovered {:?}, want people_a + people_b",
            report.discovered
        )
    });
    checks.check(report.rows_in == 2 * input.planted, || {
        format!("rows_in {} != {}", report.rows_in, 2 * input.planted)
    });
    // Seeds merge 71-85 % of the wide shape's 100 planted entities and
    // 77-81 % of the lake shape's 500; half is far below either spread.
    checks.check(report.clusters_merged * 2 >= input.planted, || {
        format!(
            "clusters_merged {} < 50% of {} planted entities",
            report.clusters_merged, input.planted
        )
    });
    checks.check(report.after.score() >= report.before.score(), || {
        format!("quality fell: {:?} -> {:?}", report.before, report.after)
    });
    checks.check(rows_out_hash == first_hash, || {
        "curated table differs between repetitions".to_string()
    });
}

/// What the stage replay counted, compared against the report.
#[derive(Debug, PartialEq)]
struct ReplayCounts {
    rows_in: usize,
    candidates: usize,
    clusters_merged: usize,
    repairs: usize,
    cells_imputed: usize,
    rows_out_hash: u64,
}

/// Extra figures only the replay can see.
#[derive(Default)]
struct ReplayExtras {
    sgns_tokens: f64,
    pairs_matched: f64,
    planted_surviving: f64,
    fds_found: f64,
}

/// `Pipeline::run`, stage by stage through the same public functions,
/// each under a span. Mirrors `src/pipeline.rs` line for line (including
/// rng draw order); the two private helpers it uses are restated below.
fn replay(input: &Input, tr: &mut Tracer) -> (ReplayCounts, ReplayExtras) {
    let cfg = &input.pipeline.config;
    let tables = &input.tables;
    let mut rng = StdRng::seed_from_u64(input.run_seed);
    let mut extras = ReplayExtras::default();
    let tokens = |docs: &[Vec<String>]| docs.iter().map(Vec::len).sum::<usize>() as f64;

    let (merged, rows_in) = tr.span("pipeline.discover", |tr| {
        let refs: Vec<&Table> = tables.iter().collect();
        let docs = tr.span("discovery.docs", |_| {
            dc_discovery::search_documents(&refs, 15)
        });
        extras.sgns_tokens += tokens(&docs) * cfg.sgns.epochs as f64;
        let emb = tr.span("embed.sgns", |_| {
            Embeddings::train(&docs, &cfg.sgns, &mut rng)
        });
        let search = tr.span("discovery.index", |_| {
            NeuralSearch::index(emb.clone(), &refs, 15)
        });
        let ranked = tr.span("discovery.search", |_| {
            engine::search_neural(&search, &cfg.query, refs.len(), refs.len())
                .expect("lake is non-empty, k >= 1")
        });
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
        (merged, rows_in)
    });

    let (integrated, fds, n_candidates, clusters_merged) = tr.span("pipeline.integrate", |tr| {
        let tuple_docs: Vec<Vec<String>> = merged
            .rows
            .iter()
            .map(|r| dc_relational::tokenize_tuple(r))
            .collect();
        extras.sgns_tokens += tokens(&tuple_docs) * cfg.sgns.epochs as f64;
        let tuple_emb = tr.span("embed.sgns", |_| {
            Embeddings::train(&tuple_docs, &cfg.sgns, &mut rng)
        });
        let vectors = tr.span("er.tuple_vectors", |_| tuple_vectors(&tuple_emb, &merged));
        let candidates = tr.span("er.block", |_| {
            let blocker = LshBlocker::new(tuple_emb.dim(), cfg.lsh.0, cfg.lsh.1, &mut rng);
            blocker.candidates(&vectors)
        });
        let half = merged.len() / 2;
        extras.planted_surviving = (0..half)
            .filter(|&i| candidates.contains(&(i, i + half)))
            .count() as f64;
        let clusters = tr.span("er.match", |_| {
            let matcher = RuleMatcher::new(cfg.dedup_threshold);
            let mut uf = UnionFind::new(merged.len());
            for &(a, b) in &candidates {
                if matcher.score(&merged.rows[a], &merged.rows[b]) >= cfg.dedup_threshold {
                    extras.pairs_matched += 1.0;
                    uf.union(a, b);
                }
            }
            uf.clusters()
        });
        let (integrated, clusters_merged) = tr.span("synth.consolidate", |_| {
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
            (integrated, clusters_merged)
        });
        let fds = tr.span("relational.discover_fds", |_| {
            select_repair_fds(discover_fds(&integrated, cfg.max_fd_lhs))
        });
        extras.fds_found = fds.len() as f64;
        tr.span("pipeline.quality", |_| quality_score(&integrated, &fds));
        (integrated, fds, candidates.len(), clusters_merged)
    });

    let (cleaned, repairs, cells_imputed) = tr.span("pipeline.clean", |tr| {
        let mut cleaned = integrated;
        let mut cells_imputed = 0usize;
        tr.span("clean.impute", |_| {
            if cfg.impute && cfg.knn_impute_k > 0 {
                let encoder = TableEncoder::fit(&cleaned, 64);
                let filled = engine::impute_knn(&cleaned, &encoder, cfg.knn_impute_k)
                    .expect("encoder was fitted to this table");
                for (row, frow) in cleaned.rows.iter_mut().zip(&filled.rows) {
                    for c in 0..row.len() {
                        if row[c].is_null() && !frow[c].is_null() {
                            row[c] = frow[c].clone();
                            cells_imputed += 1;
                        }
                    }
                }
            } else if cfg.impute {
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
        });
        let repairs = tr.span("clean.repair", |_| {
            dc_clean::repair::repair_fds(&mut cleaned, &fds, cfg.repair_rounds).len()
        });
        let mut seen = HashSet::new();
        cleaned.rows.retain(|row| {
            let key: Vec<String> = row.iter().map(|v| v.canonical()).collect();
            seen.insert(key)
        });
        tr.span("pipeline.quality", |_| quality_score(&cleaned, &fds));
        (cleaned, repairs, cells_imputed)
    });

    (
        ReplayCounts {
            rows_in,
            candidates: n_candidates,
            clusters_merged,
            repairs,
            cells_imputed,
            rows_out_hash: table_hash(&cleaned),
        },
        extras,
    )
}

/// `src/pipeline.rs`'s private FD filter, restated for the replay.
fn select_repair_fds(fds: Vec<FunctionalDependency>) -> Vec<FunctionalDependency> {
    let mut kept: Vec<FunctionalDependency> = Vec::new();
    let mut rhs_taken = HashSet::new();
    for fd in fds {
        if rhs_taken.contains(&fd.rhs) {
            continue;
        }
        if kept
            .iter()
            .any(|k| fd.lhs.contains(&k.rhs) && k.lhs.contains(&fd.rhs))
        {
            continue;
        }
        rhs_taken.insert(fd.rhs);
        kept.push(fd);
    }
    kept
}

/// `src/pipeline.rs`'s private union–find, restated for the replay.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
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

pub fn run(shape: Shape, opts: &RunOpts) -> (Outcome, Vec<Tracer>) {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let (state, setup_s) = timed_setup(opts.setup_reps(), || {
        let input = make_input(shape, opts.seed, opts.smoke);
        let warm = run_once(&input);
        (input, warm)
    });
    let (input, (first_hash, _)) = state;
    let lake_rows = input.lake_rows as f64;

    if !opts.trace {
        let (results, times, wall) = run_for(opts.seconds, |_| run_once(&input));
        for (hash, report) in &results {
            check_report(&mut checks, &input, report, *hash, first_hash);
        }
        let work = lake_rows * results.len() as f64;
        end_to_end(&mut out, setup_s, work, wall, &times);
        checks.record(&mut out);
        return (out, Vec::new());
    }

    // Per-layer pass. Each round runs three things back to back, so the
    // host's fast and slow spells fall on all three alike: `Pipeline::run`
    // with dc-obs on, for the in-program counters and the cost of
    // switching them on; the untraced reference; and the stage replay
    // under benchmark spans with dc-obs off again, because dc-obs changes
    // what SGNS computes (a loss term per pair) and would skew the stages.
    dc_obs::reset();
    let epoch = Instant::now();
    let (mut tr, mut rp) = (Tracer::new(true, epoch, 0), Tracer::new(true, epoch, 1));
    let (mut plain, mut traced, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    run_for(opts.seconds, |i| {
        dc_obs::set_enabled(true);
        tr.set_run(i as u32);
        traced.push(tr.span("pipeline.run", |_| run_once(&input)));
        dc_obs::set_enabled(false);
        let t = Instant::now();
        run_once(&input);
        plain.push(t.elapsed().as_secs_f64());
        rp.set_run(i as u32);
        replays.push(rp.span("pipeline.replay", |rp| replay(&input, rp)));
    });
    let obs = Obs::snapshot();
    let obs_reps = traced.len() as f64;
    let report = &traced[0].1;
    check_report(&mut checks, &input, report, traced[0].0, first_hash);
    let reps = replays.len() as f64;
    let (counts, extras) = &replays[0];
    let want = ReplayCounts {
        rows_in: report.rows_in,
        candidates: report.candidates,
        clusters_merged: report.clusters_merged,
        repairs: report.repairs,
        cells_imputed: report.cells_imputed,
        rows_out_hash: first_hash,
    };
    checks.check(*counts == want, || {
        format!("stage replay diverged from Pipeline::run: {counts:?} vs {want:?}")
    });

    let totals = trace::totals_by_name(rp.spans());
    let per_rep = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9 / reps)
    };
    // The three stage spans cover the replayed pipeline. Each round's
    // replay is held against the reference run of the same round.
    let stage = |name| rp.durations_s(name);
    let (discover, integrate, clean) = (
        stage("pipeline.discover"),
        stage("pipeline.integrate"),
        stage("pipeline.clean"),
    );
    let ratios: Vec<f64> = (0..plain.len())
        .map(|i| (discover[i] + integrate[i] + clean[i]) / plain[i])
        .collect();
    let gap_pct = (stats::median(&ratios) - 1.0).abs() * 100.0;
    // One round in which the two agree is asked for: this host changes
    // speed by 20 % about every seven seconds, which can pull a round
    // apart but cannot make a replay that does other work agree. It is a
    // condition on timing, so missing it marks the run invalid; that the
    // replay *computes* what `Pipeline::run` does is the check above.
    let best = ratios
        .iter()
        .map(|r| (r - 1.0).abs())
        .fold(f64::MAX, f64::min);
    checks.valid(best <= 0.10, || {
        format!("replayed stages take {ratios:?} of the untraced wall, round by round")
    });
    let overheads: Vec<f64> = tr
        .durations_s("pipeline.run")
        .iter()
        .zip(&plain)
        .map(|(t, p)| pct_over(*t, *p))
        .collect();

    let m = &mut out.metrics;
    m.insert("pipeline.discover_s", per_rep("pipeline.discover"));
    m.insert("pipeline.integrate_s", per_rep("pipeline.integrate"));
    m.insert("pipeline.clean_s", per_rep("pipeline.clean"));
    m.insert("pipeline.replay_gap_pct", gap_pct);
    m.insert("embed.sgns_s", per_rep("embed.sgns"));
    m.insert(
        "embed.sgns_tokens_per_s",
        ratio(extras.sgns_tokens, per_rep("embed.sgns")),
    );
    m.insert("discovery.docs_s", per_rep("discovery.docs"));
    m.insert("discovery.index_s", per_rep("discovery.index"));
    m.insert("discovery.search_s", per_rep("discovery.search"));
    m.insert("er.tuple_vectors_s", per_rep("er.tuple_vectors"));
    m.insert("er.block_s", per_rep("er.block"));
    let n = counts.rows_in as f64;
    let cand = counts.candidates as f64;
    m.insert("er.block_candidates", cand);
    m.insert(
        "er.block_reduction_ratio",
        1.0 - ratio(cand, n * (n - 1.0) / 2.0),
    );
    m.insert(
        "er.block_pair_recall",
        ratio(extras.planted_surviving, input.planted as f64),
    );
    m.insert("er.match_s", per_rep("er.match"));
    m.insert("er.match_pairs_per_s", ratio(cand, per_rep("er.match")));
    m.insert("er.match_yield", ratio(extras.pairs_matched, cand));
    m.insert("synth.consolidate_s", per_rep("synth.consolidate"));
    m.insert(
        "relational.discover_fds_s",
        per_rep("relational.discover_fds"),
    );
    m.insert("relational.fds_found", extras.fds_found);
    m.insert("clean.impute_s", per_rep("clean.impute"));
    m.insert("clean.repair_s", per_rep("clean.repair"));
    m.insert("clean.repairs", counts.repairs as f64);
    m.insert("clean.cells_imputed", counts.cells_imputed as f64);
    let (raw, unique) = (
        obs.counter("index.candidates_raw"),
        obs.counter("index.candidates_unique"),
    );
    m.insert("index.candidates_raw", raw / obs_reps);
    m.insert("index.candidates_unique", unique / obs_reps);
    m.insert("index.dedup_ratio", ratio(unique, raw));
    m.insert("index.build_s", obs.timers_s("index.build") / obs_reps);
    obs.tensor_metrics(m, 0.0);
    m.insert("obs.trace_overhead_pct", stats::median(&overheads));
    checks.record(&mut out);
    (out, vec![tr, rp])
}
