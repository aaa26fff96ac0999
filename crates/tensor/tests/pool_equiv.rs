//! Pool equivalence suite.
//!
//! One bitwise property over random autograd graphs: a single tape
//! recycled across repeated runs of the same program must reproduce a
//! fresh unpooled tape bit-for-bit on every run — forward value and
//! every leaf gradient — whether its buffers are fresh (first run) or
//! stale recycled ones (later runs).
//!
//! It holds for every `DC_THREADS` value; `scripts/lint.sh` runs this
//! suite under 1, 2, and the default. The pool gate is process-global,
//! so the test serialises on a mutex and re-pins it at entry.

use dc_tensor::{set_pool_enabled, Tape, Tensor, Var};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests that flip the global pool gate.
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
            // Map to roughly [-2, 2).
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// One random-graph instruction: opcode plus two operand selectors
/// (taken modulo the live-value count).
type Inst = (u8, u8, u8);

/// Programs mix unary elementwise ops (0..=6) with binary ops (7..=9),
/// so unary chains of every length get generated — including chains
/// whose interior values other ops also consume.
fn program() -> impl Strategy<Value = Vec<Inst>> {
    collection::vec((0u8..10, 0u8..=255, 0u8..=255), 1..40)
}

/// Build the program's graph on `tape`, run backward from the mean of
/// its last value (plus every leaf, so all leaf grads are live), and
/// fingerprint the output bits and all leaf-gradient bits.
fn run_program(tape: &Tape, prog: &[Inst], rows: usize, cols: usize, seed: u64) -> Vec<u32> {
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
    bits
}

proptest! {
    /// A pooled tape ≡ a fresh unpooled tape, bit for bit, on every
    /// run. The pooled tape replays the program three times with a
    /// `recycle()` between runs: the first run takes fresh buffers, and
    /// by the last every buffer it takes is a stale freelist hit.
    #[test]
    fn pooled_recycled_matches_fresh_unpooled(
        prog in program(),
        rows in 1usize..5,
        cols in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        set_pool_enabled(false);
        let fresh = {
            let tape = Tape::new();
            run_program(&tape, &prog, rows, cols, seed)
        };

        set_pool_enabled(true);
        let tape = Tape::new();
        for run in 0..3 {
            let pooled = run_program(&tape, &prog, rows, cols, seed);
            tape.recycle();
            prop_assert_eq!(&fresh, &pooled, "pooled run {} diverged", run);
        }
    }
}
