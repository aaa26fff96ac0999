//! Record the LSH blocking speedup snapshot into `BENCH_index.json`.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin bench_index            # full
//! cargo run --release -p dc-bench --bin bench_index -- --smoke # gate
//! ```
//!
//! `--smoke` shrinks every size so the equality assertion (indexed
//! blocker vs seed bucketer) still runs in CI without the wall-clock
//! cost, and skips the JSON write.
//!
//! One comparison, seeded so reruns time the same work: **LSH
//! blocking** at n ∈ {1k, 10k}, the seed bucketer
//! (`dc_er::blocking::reference` — `Vec<bool>` signatures through a
//! `HashMap` per band, every pair into a `HashSet`) vs the
//! `dc_index`-backed `LshBlocker`, built from identical hyperplanes.
//! Pair-set equality is asserted at n=1k before timing.

use dc_er::blocking::{reference, LshBlocker};
use dc_tensor::{kernel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct BlockingRecord {
    n: usize,
    dim: usize,
    bands: usize,
    rows_per_band: usize,
    reps: usize,
    reference_ms: f64,
    indexed_ms: f64,
    /// reference / indexed — the ≥5× acceptance ratio at n=10k.
    speedup: f64,
    candidate_pairs: usize,
}

#[derive(Serialize)]
struct Snapshot {
    description: &'static str,
    threads: usize,
    blocking: Vec<BlockingRecord>,
    /// The full dc-obs report (tape per-op timings, pool occupancy,
    /// LSH candidate counters) when `DC_OBS` is set; `null` otherwise.
    obs: Option<serde::Value>,
}

/// Minimum wall-clock milliseconds of `f` over `reps` runs: on a
/// shared box the fastest rep is the least noise-polluted estimate of
/// the true cost, and both sides of every comparison get the same
/// treatment.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn random_vectors(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| Tensor::randn(1, dim, 1.0, rng).data)
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // dim=64 is the low end of real tuple-embedding widths (DeepER
    // composes d=300 GloVe vectors); bands × rows follow the repo's E4
    // blocking experiments.
    let (bands, rows_per_band, dim) = (8usize, 16usize, 64usize);
    let blocking_ns: &[usize] = if smoke { &[300] } else { &[1000, 10_000] };
    let mut blocking = Vec::new();
    for &n in blocking_ns {
        let mut rng = StdRng::seed_from_u64(42);
        let vectors = random_vectors(n, dim, &mut rng);
        let planes: Vec<Vec<f32>> = (0..bands * rows_per_band)
            .map(|_| Tensor::randn(1, dim, 1.0, &mut rng).data)
            .collect();
        let seed_blocker = reference::LshBlocker::from_planes(planes.clone(), bands, rows_per_band);
        let new_blocker = LshBlocker::from_planes(planes, bands, rows_per_band);
        if n <= 1000 {
            assert_eq!(
                new_blocker.candidates(&vectors),
                seed_blocker.candidates(&vectors),
                "indexed blocker must reproduce the seed pair set"
            );
        }
        let pairs = new_blocker.candidates(&vectors).len();
        let reps = if smoke {
            3
        } else if n <= 1000 {
            9
        } else {
            5
        };
        let reference_ms = time_ms(reps, || {
            black_box(seed_blocker.candidates(&vectors));
        });
        let indexed_ms = time_ms(reps, || {
            black_box(new_blocker.candidates(&vectors));
        });
        let rec = BlockingRecord {
            n,
            dim,
            bands,
            rows_per_band,
            reps,
            reference_ms,
            indexed_ms,
            speedup: reference_ms / indexed_ms,
            candidate_pairs: pairs,
        };
        eprintln!(
            "blocking n={n:5}: reference {reference_ms:.2}ms  indexed {indexed_ms:.2}ms ({:.2}x, {pairs} pairs)",
            rec.speedup
        );
        blocking.push(rec);
    }

    // With DC_OBS set, run a short MLP fit so the report carries tape
    // fwd/bwd timings next to the pool and index counters, then embed
    // the report in the snapshot and echo it to stdout.
    if dc_obs::enabled() {
        use dc_nn::{run_dataset_epochs, Activation, Adam, LossKind, Mlp, MlpTrainer, TrainOpts};
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(128, 16, 1.0, &mut rng);
        let y = Tensor::from_vec(128, 1, (0..128).map(|i| (i % 2) as f32).collect());
        let mut mlp = Mlp::new(
            &[16, 32, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut t = MlpTrainer {
            model: &mut mlp,
            loss: LossKind::bce(),
            opt: &mut Adam::new(0.01),
        };
        let opts = TrainOpts::default().with_epochs(5).with_batch_size(32);
        let mut ds = dc_data::DenseView::new(&x, Some(&y));
        run_dataset_epochs("nn.mlp", &mut t, &mut ds, &opts, &mut rng);
    }
    let obs = dc_obs::enabled().then(|| {
        let report = dc_obs::report().to_json();
        println!("{report}");
        serde_json::from_str::<serde::Value>(&report).expect("dc-obs report is valid JSON")
    });

    let snapshot = Snapshot {
        description:
            "LSH blocking candidates (seed bucketer vs dc-index) at 1k/10k; min ms over reps",
        threads: kernel::pool().threads(),
        blocking,
        obs,
    };
    if smoke {
        eprintln!("smoke mode: the pair-set equality assertion passed, skipping BENCH_index.json");
        return;
    }
    let json = serde_json::to_string(&snapshot).expect("serialize snapshot");
    std::fs::write("BENCH_index.json", json + "\n").expect("write BENCH_index.json");
    eprintln!("wrote BENCH_index.json");
}
