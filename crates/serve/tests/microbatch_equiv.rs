//! The tentpole guarantee: responses computed through the micro-batcher
//! are **bitwise identical** to running each request alone, whatever
//! the batch composition. `scripts/lint.sh` runs this binary under
//! `DC_THREADS=1`, `=2`, and the default, so the guarantee is checked
//! across worker-pool splits too.
//!
//! Why it holds: the batch closures call the `ROW_TILE`-aligned
//! inference paths, where every request's rows land on full kernel
//! tiles — each row's output is a pure function of that row's inputs,
//! independent of what else shares the GEMM.
//!
//! There is no batch window to widen, so coalescing comes from load
//! alone: each test releases its clients together from a `Barrier`, and
//! whatever arrives while one batch runs rides in the next.

use dc_serve::testutil::tiny_tenant_spec;
use dc_serve::{engine, ServeConfig, Tenant};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Bursts the match test may spend before it must have seen one batch
/// carrying two or more requests.
const BURSTS: usize = 20;

/// The tests share dc-obs's process-wide counters: one at a time, so the
/// counts a test reads are its own.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cap above every burst below, so a batch closes only when the batch
/// before it finishes.
fn tenant() -> Tenant {
    let cfg = ServeConfig::default().with_batch_max(16);
    tiny_tenant_spec("t", 0xbeef).build(&cfg).unwrap()
}

/// Run `call(i)` for every `i < n`, each on its own thread, all released
/// at once from a barrier; results in index order.
fn burst<R: Send>(n: usize, call: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let barrier = Barrier::new(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (barrier, call) = (&barrier, &call);
                s.spawn(move || {
                    barrier.wait();
                    call(i)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn batched_match_is_bitwise_equal_to_solo() {
    let _serial = serial();
    dc_obs::set_enabled(true);
    let tenant = tenant();
    let n = tenant.rows();
    // Per-client workloads of different lengths, overlapping pairs.
    let workloads: Vec<Vec<(usize, usize)>> = (0..12)
        .map(|c| {
            (0..=c % 4)
                .map(|j| ((c + j) % n, (c * 3 + j * 7 + 1) % n))
                .collect()
        })
        .collect();
    // Solo baseline: each workload alone, straight through the engine.
    let solo: Vec<Vec<u32>> = workloads
        .iter()
        .map(|w| bits(&engine::match_pairs(&tenant.model(), tenant.table(), w).unwrap()))
        .collect();
    // Batched: all workloads at once, coalescing in the batcher, until
    // some batch has mixed two or more requests.
    let (surplus_before, waits_before) = (surplus(), batch_waits());
    let mut submitted = 0;
    for _ in 0..BURSTS {
        let batched = burst(workloads.len(), |i| {
            bits(&tenant.match_pairs(workloads[i].clone()).unwrap())
        });
        assert_eq!(batched, solo, "micro-batched scores must be bitwise solo");
        submitted += workloads.len() as u64;
        if surplus() > surplus_before {
            break;
        }
    }
    assert!(
        surplus() > surplus_before,
        "{BURSTS} bursts of 12 concurrent requests never put two in one batch"
    );
    assert_eq!(
        batch_waits() - waits_before,
        submitted,
        "serve.batch.wait times every request's submit → batch start"
    );
}

#[test]
fn batched_encode_is_bitwise_equal_to_solo() {
    let _serial = serial();
    let tenant = tenant();
    let n = tenant.rows();
    let workloads: Vec<Vec<usize>> = (0..10)
        .map(|c| (0..=(c % 3)).map(|j| (c * 5 + j) % n).collect())
        .collect();
    let embed_bits =
        |vecs: Vec<Vec<f32>>| -> Vec<Vec<u32>> { vecs.iter().map(|v| bits(v)).collect() };
    let solo: Vec<Vec<Vec<u32>>> = workloads
        .iter()
        .map(|w| embed_bits(engine::encode_rows(&tenant.model(), tenant.table(), w).unwrap()))
        .collect();
    let batched = burst(workloads.len(), |i| {
        embed_bits(tenant.encode_rows(workloads[i].clone()).unwrap())
    });
    assert_eq!(
        batched, solo,
        "micro-batched embeddings must be bitwise solo"
    );
}

#[test]
fn a_malformed_request_cannot_poison_a_batch() {
    let _serial = serial();
    let tenant = tenant();
    let n = tenant.rows();
    // One bad client among good ones: the bad one fails alone (it is
    // rejected before enqueue), every good one still gets solo-exact
    // scores.
    let good: Vec<(usize, usize)> = vec![(0, 1), (1, 2)];
    let solo = bits(&engine::match_pairs(&tenant.model(), tenant.table(), &good).unwrap());
    let replies = burst(8, |c| {
        if c == 3 {
            Err(tenant.match_pairs(vec![(0, n + 10)]).unwrap_err())
        } else {
            Ok(bits(&tenant.match_pairs(good.clone()).unwrap()))
        }
    });
    for (c, reply) in replies.into_iter().enumerate() {
        match reply {
            Err(e) => {
                assert_eq!(c, 3);
                assert_eq!(e.kind(), "invalid_input");
            }
            Ok(scores) => assert_eq!(scores, solo),
        }
    }
}

/// `serve.batch.requests` − `serve.batch.flushes`: positive once some
/// batch has carried two or more requests.
fn surplus() -> u64 {
    let report = dc_obs::report();
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    counter("serve.batch.requests") - counter("serve.batch.flushes")
}

fn batch_waits() -> u64 {
    dc_obs::report()
        .timers
        .iter()
        .find(|t| t.name == "serve.batch.wait")
        .map_or(0, |t| t.hist.count)
}
