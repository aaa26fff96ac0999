//! Liveness property suite.
//!
//! Random autograd programs (the same instruction mix as dc-tensor's
//! pool-equivalence suite: unary elementwise chains interleaved with
//! binary ops) tie the static analyzer to the runtime:
//!
//! 1. **No false alarms.** `liveness::verify` must accept every graph
//!    the runtime records.
//! 2. **Forecast parity.** `forecast_pool`'s predicted `PoolStats`
//!    (hits, misses, high-water) equals the runtime's actuals after one
//!    recorded-and-swept step from a fresh pooled tape, for arbitrary
//!    graphs — not just the curated training steps in dc-nn's tests.
//! 3. **Plan verification.** The computed early-recycle plan replays
//!    cleanly, and tightening any read buffer's release to
//!    `AfterForward` is rejected with `UseAfterRecycle`.

use dc_check::liveness::{self, ReleasePoint};
use dc_check::Defect;
use dc_tensor::{set_pool_enabled, Tape, Tensor, Var};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests that pin the global pool gate.
static GATE_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic pseudo-random tensor: a tiny LCG keyed by `seed`.
fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// One random-graph instruction: opcode plus two operand selectors
/// (taken modulo the live-value count).
type Inst = (u8, u8, u8);

/// Opcodes 0..=6 are unary elementwise ops; 7..=9 are binary ops, so
/// unary chains of every shape — including interiors consumed outside
/// their chain — get generated.
fn program() -> impl Strategy<Value = Vec<Inst>> {
    collection::vec((0u8..10, 0u8..=255, 0u8..=255), 1..40)
}

/// Build the program's graph, sweep from the mean of its last value plus
/// every leaf, and fingerprint the output and leaf-gradient bits.
/// Returns the backward root alongside the bits.
fn run_program(tape: &Tape, prog: &[Inst], rows: usize, cols: usize, seed: u64) -> (Var, Vec<u32>) {
    let leaves: Vec<Var> = (0..3)
        .map(|i| tape.var(fill(rows, cols, seed ^ i)))
        .collect();
    let mut vals = leaves.clone();
    for &(op, a, b) in prog {
        let va = vals[a as usize % vals.len()];
        let vb = vals[b as usize % vals.len()];
        let r = match op {
            0 => tape.sigmoid(va),
            1 => tape.tanh(va),
            2 => tape.relu(va),
            3 => tape.leaky_relu(va, 0.1),
            4 => tape.abs(va),
            5 => tape.scale(va, 0.5),
            6 => tape.add_scalar(va, 0.25),
            7 => tape.add(va, vb),
            8 => tape.sub(va, vb),
            _ => tape.mul(va, vb),
        };
        vals.push(r);
    }
    let mut root = *vals.last().expect("program is non-empty");
    for &l in &leaves {
        root = tape.add(root, l);
    }
    let out = tape.mean(root);
    tape.backward(out);
    let mut bits = vec![tape.item(out).to_bits()];
    for &l in &leaves {
        tape.with_grad(l, |g| bits.extend(g.data.iter().map(|v| v.to_bits())));
    }
    (out, bits)
}

proptest! {
    /// Property 1: the checker accepts every generated graph.
    #[test]
    fn verify_accepts_every_generated_graph(
        prog in program(),
        rows in 1usize..5,
        cols in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_enabled(true);

        let tape = Tape::new();
        let (out, _) = run_program(&tape, &prog, rows, cols, seed);
        let errors = liveness::verify(&tape, out.index());
        prop_assert!(errors.is_empty(), "checker rejected a graph the runtime \
                      records: {}", dc_check::render(&errors));
    }

    /// Property 2: forecast ≡ actuals on arbitrary graphs from a fresh
    /// pooled tape.
    #[test]
    fn forecast_matches_actual_pool_stats(
        prog in program(),
        rows in 1usize..5,
        cols in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_enabled(true);

        let tape = Tape::new();
        let (out, _) = run_program(&tape, &prog, rows, cols, seed);
        let root = tape.last_backward_root().expect("backward ran");
        prop_assert_eq!(root, out.index());
        let predicted = liveness::forecast_pool(&tape, root)
            .expect("generated graphs are well-formed");
        let actual = tape.pool_stats();
        prop_assert_eq!(predicted, actual);
    }

    /// Property 3: the computed release plan verifies clean, and any
    /// backward-read buffer released early is caught.
    #[test]
    fn release_plan_is_tight(
        prog in program(),
        rows in 1usize..5,
        cols in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_enabled(true);

        let tape = Tape::new();
        let (out, _) = run_program(&tape, &prog, rows, cols, seed);
        let live = liveness::analyze(&tape, out.index())
            .expect("generated graphs are well-formed");
        prop_assert!(liveness::verify_plan(&tape, out.index(), &live.release).is_empty());

        // Every pooled buffer backward still reads must be caught if the
        // plan pretends it dies after forward.
        for (j, point) in live.release.iter().enumerate() {
            if let ReleasePoint::AfterSweep(_) = point {
                let mut bad = live.release.clone();
                bad[j] = ReleasePoint::AfterForward;
                let errors = liveness::verify_plan(&tape, out.index(), &bad);
                prop_assert!(
                    errors.iter().any(|e| e.defect == Defect::UseAfterRecycle),
                    "premature release of node {} went undetected", j
                );
            }
        }
    }
}
