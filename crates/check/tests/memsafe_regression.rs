//! Use-after-recycle regression (ISSUE 6 satellite): deliberately read
//! a recycled buffer and assert the structured diagnostic.
//!
//! With the `DC_CHECK` instrumentation gate on, `BufferPool::put` fills
//! every recycled buffer with the `0xFFC0_DEAD` poison NaN and tracks
//! generation-tagged debug handles. These tests drive the real pool
//! through a stale read and a double recycle, then assert that
//! `dc_check::memsafe` reports each as the right `Defect` with
//! provenance — the end-to-end path a real bug would take.

use dc_check::{memsafe, Defect};
use dc_tensor::{
    set_check_enabled, set_pool_enabled, BufferPool, PoolViolationKind, Tape, Tensor,
    POISON_PATTERN,
};
use std::sync::Mutex;

/// Serialises tests that flip the global check/pool gates.
static GATE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn stale_read_of_recycled_buffer_is_diagnosed() {
    let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_check_enabled(true);
    set_pool_enabled(true);

    // A consumer takes a buffer, computes into it, recycles it — then a
    // later taker wires the same storage into a graph *without fully
    // overwriting it* (the classic stale read: the recycled contents
    // look plausibly like data unless poisoned).
    let pool = BufferPool::new();
    let mut buf = pool.take(4);
    buf.fill(1.5);
    pool.put(buf); // poison-filled here
    let stale = pool.take(4); // same storage back, still poisoned
    assert!(
        stale.iter().all(|v| v.to_bits() == POISON_PATTERN),
        "recycled buffer must come back poison-filled under DC_CHECK"
    );

    let tape = Tape::new();
    let leaf = tape.var(Tensor {
        rows: 2,
        cols: 2,
        data: stale,
    });
    let errors = memsafe::scan_poison(&tape);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].defect, Defect::UseAfterRecycle);
    assert_eq!(errors[0].node, leaf.index());
    assert_eq!(errors[0].op, "leaf");
    assert!(errors[0].got.contains("4 of 4"), "{}", errors[0].got);

    set_check_enabled(false);
}

#[test]
fn double_recycle_is_diagnosed_with_generation() {
    let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_check_enabled(true);
    set_pool_enabled(true);

    let pool = BufferPool::new();
    pool.bump_generation(); // simulate one completed step
    let foreign = vec![0.0f32; 8]; // never taken from this pool
    pool.put(foreign);
    let violations = pool.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kind, PoolViolationKind::DoubleRecycle);
    assert_eq!(violations[0].len, 8);
    assert_eq!(violations[0].generation, 1);

    set_check_enabled(false);
}

#[test]
fn check_gate_off_means_no_tracking_overhead() {
    let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_check_enabled(false);
    set_pool_enabled(true);

    let pool = BufferPool::new();
    let mut buf = pool.take(4);
    buf.fill(1.5);
    pool.put(buf);
    let back = pool.take(4);
    // Without the gate, recycled contents are left as-is (no poison)
    // and nothing is tracked.
    assert!(back.iter().all(|&v| v == 1.5));
    assert!(pool.violations().is_empty());
}

#[test]
fn recycled_storage_read_into_the_lstm_cache_is_diagnosed() {
    let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_check_enabled(true);
    set_pool_enabled(true);

    // A recycled bias buffer wired into an LSTM step without being
    // overwritten: its poison flows through `tanh` into the candidate
    // gate's lanes of the op's per-step cache. The scan must see the
    // cache (an `Op::aux` tensor), not only node values and gradients.
    let pool = BufferPool::new();
    let mut buf = pool.take(8);
    buf.fill(0.25);
    pool.put(buf); // poison-filled here
    let stale = pool.take(8);

    let tape = Tape::new();
    let xw = tape.var(Tensor::from_vec(3, 8, vec![0.1; 24]));
    let wh = tape.var(Tensor::from_vec(2, 8, vec![-0.2; 16]));
    let b = tape.var(Tensor {
        rows: 1,
        cols: 8,
        data: stale,
    });
    let h = tape.lstm(xw, wh, b);
    let errors = memsafe::scan_poison(&tape);
    let cached: Vec<_> = errors
        .iter()
        .filter(|e| e.node == h.index() && e.got.contains("cached-aux"))
        .collect();
    assert_eq!(cached.len(), 1, "{errors:?}");
    assert_eq!(cached[0].defect, Defect::UseAfterRecycle);
    assert_eq!(cached[0].op, "lstm");

    set_check_enabled(false);
}
